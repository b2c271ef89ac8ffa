package store

import "os"

// WriteFileAtomic writes data to path through a sibling ".tmp" file
// renamed into place, so a reader (or a crash-recovery scan) only ever
// observes the old content or the new — never a torn mix. With sync the
// file is fsynced before the rename, so its content survives machine
// death, not just process death; the rename itself becomes durable once
// the caller fsyncs the containing directory with SyncDir. The one
// atomic-file writer: the store's snapshot and history, internal/cluster's
// fragment-log frontier and spool, and internal/source's tail checkpoint.
func WriteFileAtomic(path string, data []byte, sync bool) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// SyncDir fsyncs a directory, making a completed rename or unlink within
// it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
