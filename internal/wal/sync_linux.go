package wal

import (
	"os"
	"syscall"
)

// datasync flushes f's data, and the metadata needed to read that data
// back, to the device (fdatasync(2)). A write inside the preallocated
// region changes no file size, so this is the device flush alone; a
// write that did extend the file has its new size flushed with it.
func datasync(f *os.File) error {
	return os.NewSyscallError("fdatasync", ignoringEINTR(func() error {
		return syscall.Fdatasync(int(f.Fd()))
	}))
}

// fallocate extends f to off+n bytes with blocks that are allocated
// and read as zeros (fallocate(2), mode 0). A filesystem without it
// answers an errno that errors.Is reports as errors.ErrUnsupported.
func fallocate(f *os.File, off, n int64) error {
	return os.NewSyscallError("fallocate", ignoringEINTR(func() error {
		return syscall.Fallocate(int(f.Fd()), 0, off, n)
	}))
}

// ignoringEINTR repeats a system call a signal interrupted, as the os
// package does for its own.
func ignoringEINTR(call func() error) error {
	for {
		if err := call(); err != syscall.EINTR {
			return err
		}
	}
}
