package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// validLog builds a small well-formed segment image: three framed
// admit/release records with consecutive sequence numbers.
func validLog() []byte {
	var b []byte
	recs := []*Record{
		{Seq: 1, Type: RecAdmit, Session: 0, FinalCost: 2.5, Uses: [][2]int{{0, 1}}},
		{Seq: 2, Type: RecAdmit, Session: 1, FinalCost: 3.5, Uses: [][2]int{{0, 1}, {1, 2}}},
		{Seq: 3, Type: RecRelease, Session: 0},
	}
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			panic(err)
		}
		b = frame(b, payload)
	}
	return b
}

// FuzzWALReplay feeds arbitrary byte mutations of a valid log through
// the replayer. The contract under fuzzing: never panic, never report
// success past invalid data — every outcome is either a clean replay
// of a valid prefix, a tolerated torn tail, or a typed ErrCorrupt.
func FuzzWALReplay(f *testing.F) {
	f.Add(validLog(), true)
	f.Add(validLog(), false)
	f.Add([]byte{}, true)
	// A truncated tail: torn when final, corrupt otherwise.
	v := validLog()
	f.Add(v[:len(v)-5], true)
	f.Add(v[:len(v)-5], false)
	// A single corrupt header claiming an enormous payload.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, false)
	// What a crashed log's preallocation leaves behind, after records
	// and on its own: the end of the log when final, corrupt otherwise.
	for _, last := range []bool{true, false} {
		f.Add(append(validLog(), make([]byte, 64)...), last)
		f.Add(make([]byte, 64), last)
	}

	f.Fuzz(func(t *testing.T, data []byte, lastSegment bool) {
		var replayed []Record
		torn, err := ReplayBytes(data, lastSegment, func(r *Record) error {
			replayed = append(replayed, *r)
			return nil
		})
		// Zero tail: a clean end when last, ErrCorrupt otherwise.
		if body := bytes.TrimRight(data, "\x00"); len(body) < len(data) && (len(body) == 0 || bytes.Equal(body, validLog())) {
			want := 0
			if len(body) > 0 {
				want = 3
			}
			if lastSegment && (err != nil || torn || len(replayed) != want) {
				t.Fatalf("zero tail in the last segment: %d records, torn=%v, err=%v", len(replayed), torn, err)
			}
			if !lastSegment && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("zero tail in a non-final segment: err=%v, want ErrCorrupt", err)
			}
		}
		if err != nil {
			// The only legal failure is typed corruption.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped replay error: %v", err)
			}
			return
		}
		if torn && !lastSegment {
			t.Fatal("torn tail tolerated outside the final segment")
		}
		// Whatever replayed must be internally consistent: strictly
		// consecutive sequence numbers, each re-encodable.
		for i := 1; i < len(replayed); i++ {
			if replayed[i].Seq != replayed[i-1].Seq+1 {
				t.Fatalf("silent sequence gap: %d after %d",
					replayed[i].Seq, replayed[i-1].Seq)
			}
		}
		// A clean replay of the full untampered log must see all 3.
		if bytes.Equal(data, validLog()) && len(replayed) != 3 {
			t.Fatalf("valid log replayed %d records, want 3", len(replayed))
		}
	})
}
