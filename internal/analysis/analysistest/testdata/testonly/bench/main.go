package main

import (
	"fmt"

	"repro/internal/lib"
)

func main() {
	t := lib.New(lib.Config{Size: lib.Frozen})
	var s lib.Sizer = t
	r, _ := lib.Decode([]byte(`{"prompt":"hi"}`))
	fmt.Println(t, s.Len(), t.Pick(), t.Depth, r, lib.Used())
}
