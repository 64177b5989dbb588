package chaos

import (
	"repro/internal/kvstore"
	"repro/internal/simclock"
)

// FaultFS wraps a kvstore.VFS with fault points on every operation, the
// same layering as rockyardkv's FaultInjectionFS: the snapshot store and
// disk tier run unmodified on top, and tests inject errors, torn writes,
// lying syncs, and mid-operation power loss underneath them.
//
// Point names: fs.create, fs.open, fs.rename, fs.remove, fs.list,
// fs.syncdir for namespace operations; file.read, file.write, file.sync
// for handle operations. Outcomes per operation:
//
//   - Err: the operation fails before touching the inner filesystem.
//   - Stall: the operation charges extra virtual disk time first.
//   - Torn (file.write): only the first half of the buffer lands, then
//     the write fails — a torn page.
//   - Lie (file.sync, fs.syncdir): the call reports success but the
//     durability it promised never happens; a later crash reveals it.
//   - Crash: the inner filesystem power-fails mid operation, and the
//     operation fails — the machine died before acknowledging it.
type FaultFS struct {
	inner kvstore.VFS
	inj   *Injector
}

// NewFaultFS wraps inner with fault points driven by inj.
func NewFaultFS(inner kvstore.VFS, inj *Injector) *FaultFS {
	return &FaultFS{inner: inner, inj: inj}
}

// Bind forwards a clock re-bind to the inner filesystem when it supports
// one (SimFS does), so FaultFS slots into the restart idiom unchanged.
func (fs *FaultFS) Bind(clk *simclock.Clock) {
	if b, ok := fs.inner.(interface{ Bind(*simclock.Clock) }); ok {
		b.Bind(clk)
	}
}

// Crash forwards a power-loss to the inner filesystem when it supports
// one.
func (fs *FaultFS) Crash() {
	if c, ok := fs.inner.(interface{ Crash() }); ok {
		c.Crash()
	}
}

// check evaluates point, applies stall and crash side effects, and
// returns the fault for the caller to interpret.
func (fs *FaultFS) check(point string) Fault {
	f := fs.inj.Check(point)
	if f.Stall > 0 {
		fs.inj.sleep(f.Stall)
	}
	if f.Crash {
		fs.Crash()
	}
	return f
}

func (fs *FaultFS) Create(name string) (kvstore.File, error) {
	if f := fs.check("fs.create"); f.Err != nil {
		return nil, f.Err
	}
	h, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: h, fs: fs}, nil
}

func (fs *FaultFS) Open(name string) (kvstore.File, error) {
	if f := fs.check("fs.open"); f.Err != nil {
		return nil, f.Err
	}
	h, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: h, fs: fs}, nil
}

func (fs *FaultFS) Rename(oldName, newName string) error {
	if f := fs.check("fs.rename"); f.Err != nil {
		return f.Err
	}
	return fs.inner.Rename(oldName, newName)
}

func (fs *FaultFS) Remove(name string) error {
	if f := fs.check("fs.remove"); f.Err != nil {
		return f.Err
	}
	return fs.inner.Remove(name)
}

func (fs *FaultFS) List() ([]string, error) {
	if f := fs.check("fs.list"); f.Err != nil {
		return nil, f.Err
	}
	return fs.inner.List()
}

func (fs *FaultFS) SyncDir() error {
	f := fs.check("fs.syncdir")
	if f.Err != nil {
		return f.Err
	}
	if f.Lie {
		return nil
	}
	return fs.inner.SyncDir()
}

// faultFile wraps one handle; every operation consults the file.* fault
// points of the owning FaultFS.
type faultFile struct {
	inner kvstore.File
	fs    *FaultFS
}

func (h *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if f := h.fs.check("file.read"); f.Err != nil {
		return 0, f.Err
	}
	return h.inner.ReadAt(p, off)
}

func (h *faultFile) WriteAt(p []byte, off int64) (int, error) {
	f := h.fs.check("file.write")
	if f.Torn {
		n, _ := h.inner.WriteAt(p[:len(p)/2], off)
		return n, f.Err
	}
	if f.Err != nil {
		return 0, f.Err
	}
	return h.inner.WriteAt(p, off)
}

func (h *faultFile) Size() (int64, error) { return h.inner.Size() }

func (h *faultFile) Sync() error {
	f := h.fs.check("file.sync")
	if f.Err != nil {
		return f.Err
	}
	if f.Lie {
		return nil
	}
	return h.inner.Sync()
}

func (h *faultFile) Close() error { return h.inner.Close() }
