package kvfs

import (
	"testing"

	"repro/internal/token"
)

// FuzzFilePins drives random Append, Fork, Pin, Unpin, Offload, Restore,
// PromoteDisk, Remove and Spill operations over a tiny three-tier file
// system and checks after each one that no pinned file's pages moved down
// a tier (its GPU tokens never drop, its disk tokens never grow), that
// every file's Pins equals the balance of its Pin and Unpin calls (never
// below zero), and that each tier's page count equals the pages the files
// hold there.
func FuzzFilePins(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 0, 4, 0, 8, 0, 3, 0, 4, 0, 8, 0})
	f.Add([]byte{0, 1, 1, 0, 2, 1, 4, 1, 4, 0, 8, 0, 8, 1, 5, 1, 6, 0, 7, 1})
	f.Add([]byte{0, 6, 0, 6, 0, 6, 2, 0, 3, 0, 3, 0, 4, 0, 2, 0, 5, 0, 8, 0, 6, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		fs, dt := diskFS(4, 12, 8, 16)
		files := []*File{fs.CreateAnon("u")}
		pins := map[*File]int{}
		for i := 0; i+1 < len(ops); i += 2 {
			op, x := ops[i]%9, int(ops[i+1])
			file := files[x%len(files)]
			type tiers struct{ gpu, disk int }
			before := map[*File]tiers{}
			for _, pf := range files {
				if pins[pf] > 0 {
					gpu, _, disk := pf.ResidentTokens()
					before[pf] = tiers{gpu, disk}
				}
			}
			switch op {
			case 0:
				n := x%7 + 1
				toks, pos := make([]token.ID, n), make([]int, n)
				for j := range toks {
					toks[j], pos[j] = token.ID(x+j), file.Len()+j
				}
				file.Append(toks, pos)
			case 1:
				if child, err := file.Fork("u"); err == nil {
					files = append(files, child)
				}
			case 2:
				file.Pin()
				pins[file]++
			case 3:
				file.Unpin()
				if pins[file] > 0 {
					pins[file]--
				}
			case 4:
				file.Offload()
			case 5:
				file.Restore()
			case 6:
				file.PromoteDisk()
			case 7:
				file.Remove()
			case 8:
				dt.Spill(file)
			}
			for pf, b := range before {
				if pf.Removed() {
					continue
				}
				if gpu, _, disk := pf.ResidentTokens(); gpu < b.gpu || disk > b.disk {
					t.Fatalf("op %d moved a pinned file down: gpu %d -> %d, disk %d -> %d", op, b.gpu, gpu, b.disk, disk)
				}
			}
			checkPinsAndPages(t, fs, dt, files, pins)
		}
	})
}

// checkPinsAndPages holds every file's pin count to the reference model
// and each tier's page accounting to the pages the live files hold (a
// page shared by forks counted once; disk pages are the store records'
// reservations, which outlive a removed file until Commit).
func checkPinsAndPages(t *testing.T, fs *FS, dt *DiskTier, files []*File, pins map[*File]int) {
	t.Helper()
	for _, f := range files {
		if got := f.Pins(); got != pins[f] || got < 0 {
			t.Fatalf("Pins() = %d, want %d", got, pins[f])
		}
		if gpu, host, disk := f.ResidentTokens(); gpu+host+disk != f.Len() {
			t.Fatalf("resident tokens %d+%d+%d, want the file's %d", gpu, host, disk, f.Len())
		}
	}
	fs.mu.Lock()
	seen := map[*page]bool{}
	var held [3]int
	for _, f := range files {
		for _, pg := range f.pages {
			if !seen[pg] {
				seen[pg] = true
				held[pg.tier]++
			}
		}
	}
	gpu, host := fs.use[GPU].pages, fs.use[Host].pages
	disk := fs.use[Disk].pages
	fs.mu.Unlock()
	if gpu != held[GPU] || host != held[Host] {
		t.Fatalf("tier pages gpu %d host %d, files hold %d and %d", gpu, host, held[GPU], held[Host])
	}
	dt.mu.Lock()
	reserved := 0
	for _, r := range dt.recs {
		reserved += r.pages
	}
	dt.mu.Unlock()
	if disk != reserved {
		t.Fatalf("disk pages %d, store records reserve %d", disk, reserved)
	}
}
