//go:build !linux

package wal

import (
	"errors"
	"os"
)

// datasync is a full fsync where the platform offers nothing narrower.
func datasync(f *os.File) error { return f.Sync() }

// fallocate is unsupported here: appends simply grow the file.
func fallocate(*os.File, int64, int64) error { return errors.ErrUnsupported }
