//go:build !linux

package main

import (
	"errors"
	"os/exec"
)

// dieWithParent has no portable equivalent of Linux's parent-death signal;
// elsewhere the deferred stop is all there is.
func dieWithParent(*exec.Cmd) {}

// pinToOneCPU is Linux only; elsewhere the workload runs unpinned.
func pinToOneCPU() (int, error) { return 0, errors.New("not supported on this system") }
