package core

// JournalPoolStats reported the traffic of stage two's move-journal
// free list. Stage two keeps no journals any more: a trial move is
// priced by pricing its embedding and undone by writing back what it
// overwrote (see runOPAPass).
//
// Deprecated: always returns (0, 0); kept only while bench/main.go
// reads it.
func JournalPoolStats() (gets, news int64) { return 0, 0 }
