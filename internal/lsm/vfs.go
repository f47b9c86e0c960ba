package lsm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Dir is the crash-survivable directory a durable Engine writes its WAL,
// manifest and sstables into. Like the sstables
// themselves, "disk" here is in-memory — what matters for the systems above
// is the durability contract, which Dir models faithfully: an append is
// volatile until the file is synced, a rename is atomic and durable, and
// Crash discards everything that was not synced. Tests and the chaos harness
// crash a Dir and hand it to Open to exercise the recovery path.
//
// Dir is safe for concurrent use and may outlive any number of Engine
// incarnations opened over it.
type Dir struct {
	mu    sync.Mutex
	files map[string]*dirFile
}

// dirFile is one named append-only file. data beyond synced is volatile: a
// crash truncates it away (except for the torn tail Crash may keep, modeling
// a partial sector write).
type dirFile struct {
	data   []byte
	synced int
}

// NewDir returns an empty durable directory.
func NewDir() *Dir {
	return &Dir{files: make(map[string]*dirFile)}
}

// Append appends b to the named file, creating it if needed. The bytes are
// volatile until the next Sync of the file.
func (d *Dir) Append(name string, b []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[name]
	if f == nil {
		f = &dirFile{}
		d.files[name] = f
	}
	f.data = append(f.data, b...)
}

// Sync makes every byte appended to the named file so far durable. Syncing a
// missing file is a no-op (matching fsync-after-unlink).
func (d *Dir) Sync(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f := d.files[name]; f != nil {
		f.synced = len(f.data)
	}
}

// WriteFileSync atomically replaces the named file's contents and syncs it —
// the write-temp-file step of an atomic install.
func (d *Dir) WriteFileSync(name string, b []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.files[name] = &dirFile{data: append([]byte(nil), b...), synced: len(b)}
}

// Rename atomically and durably renames a file, replacing any existing
// target — the install step of write-temp-then-rename. The renamed file is
// durable in its entirety (rename-into-place implies the directory sync).
func (d *Dir) Rename(oldName, newName string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[oldName]
	if f == nil {
		return fmt.Errorf("lsm: rename %s: file does not exist", oldName)
	}
	f.synced = len(f.data)
	delete(d.files, oldName)
	d.files[newName] = f
	return nil
}

// ReadFile returns a copy of the named file's current contents, and whether
// the file exists.
func (d *Dir) ReadFile(name string) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[name]
	if f == nil {
		return nil, false
	}
	return append([]byte(nil), f.data...), true
}

// Remove deletes the named file. Removing a missing file is a no-op.
func (d *Dir) Remove(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.files, name)
}

// List returns the names of files with the given prefix, sorted.
func (d *Dir) List(prefix string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for name := range d.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Crash simulates a process crash: every file loses its unsynced tail,
// except that up to tear bytes of the unsynced suffix survive on each file —
// the partially-flushed page a real disk can leave behind, which is what
// produces a torn WAL record for recovery to detect and truncate. tear <= 0
// models a clean cut at the last sync.
func (d *Dir) Crash(tear int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, f := range d.files {
		keep := f.synced
		if tear > 0 {
			keep += tear
			if keep > len(f.data) {
				keep = len(f.data)
			}
		}
		f.data = f.data[:keep:keep]
		if f.synced > keep {
			f.synced = keep
		}
	}
}
