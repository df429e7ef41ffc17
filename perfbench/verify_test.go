package main

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/fileservice"
)

// fakeFS is an in-memory file service whose faults the tests arm: it can
// drop one acknowledged write, serve a slot's content as of an earlier
// write, or tear a block by mixing two versions.
type fakeFS struct {
	files map[fileservice.FileID][]byte
	// history keeps every version written at each offset, oldest first.
	history map[fileservice.FileID]map[int64][][]byte

	dropNextWrite bool  // acknowledge the next write without storing it
	serveOld      int   // serve the content this many writes back (0 = current)
	tearNext      bool  // the next read returns half the current, half the previous version
	readErr       error // the next read fails with this error
}

func newFakeFS(files, size int) *fakeFS {
	f := &fakeFS{files: map[fileservice.FileID][]byte{}, history: map[fileservice.FileID]map[int64][][]byte{}}
	for i := 0; i < files; i++ {
		id := fileservice.FileID(i + 1)
		f.files[id] = make([]byte, size)
		f.history[id] = map[int64][][]byte{}
	}
	return f
}

func (f *fakeFS) WriteAt(id fileservice.FileID, off int64, data []byte) (int, error) {
	if f.dropNextWrite {
		f.dropNextWrite = false
		return len(data), nil
	}
	copy(f.files[id][off:], data)
	f.history[id][off] = append(f.history[id][off], append([]byte(nil), data...))
	return len(data), nil
}

func (f *fakeFS) ReadAt(id fileservice.FileID, off int64, n int) ([]byte, error) {
	if f.readErr != nil {
		err := f.readErr
		f.readErr = nil
		return nil, err
	}
	out := append([]byte(nil), f.files[id][off:off+int64(n)]...)
	h := f.history[id][off]
	switch {
	case f.tearNext && len(h) >= 2:
		f.tearNext = false
		copy(out[n/2:], h[len(h)-2][n/2:])
	case f.serveOld > 0 && len(h) > f.serveOld:
		out = append([]byte(nil), h[len(h)-1-f.serveOld]...)
	}
	return out, nil
}

// fakeClock is a settable verifier clock.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

// slotRig is a two-file slot space over a fake file service, populated at
// version 0 like the real workloads.
func slotRig(t *testing.T, lag time.Duration) (*slotSpace, *fakeFS, *Verifier, *fakeClock) {
	t.Helper()
	const per = 4
	fs := newFakeFS(2, per*slotBytes)
	sp := &slotSpace{ids: []fileservice.FileID{1, 2}, per: per}
	for s := 0; s < sp.n(); s++ {
		id, f, k, off := sp.where(s)
		buf := make([]byte, slotBytes)
		stamp(buf, f, k, 0)
		if _, err := fs.WriteAt(id, off, buf); err != nil {
			t.Fatal(err)
		}
	}
	clk := &fakeClock{}
	return sp, fs, newVerifier(sp.n(), lag, clk.now), clk
}

func wantKind(t *testing.T, err error, kind string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), kind) {
		t.Fatalf("got %v, want a %s failure", err, kind)
	}
}

func TestVerifierAcceptsCurrentReads(t *testing.T) {
	sp, fs, v, clk := slotRig(t, 0)
	buf := make([]byte, slotBytes)
	for round := 0; round < 3; round++ {
		for s := 0; s < sp.n(); s++ {
			clk.t += time.Millisecond
			if err := sp.write(fs, v, s, buf); err != nil {
				t.Fatal(err)
			}
			clk.t += time.Millisecond
			if err := sp.read(fs, v, s); err != nil {
				t.Fatalf("round %d slot %d: %v", round, s, err)
			}
		}
	}
	for s := 0; s < sp.n(); s++ {
		if err := sp.final(fs, v, s); err != nil {
			t.Fatal(err)
		}
	}
	for k, n := range v.counts() {
		if n != 0 {
			t.Errorf("%s = %d, want 0", k, n)
		}
	}
}

func TestVerifierCatchesDroppedWrite(t *testing.T) {
	sp, fs, v, clk := slotRig(t, 0)
	buf := make([]byte, slotBytes)
	clk.t = time.Second
	fs.dropNextWrite = true
	if err := sp.write(fs, v, 3, buf); err != nil {
		t.Fatal(err) // the fake acknowledges the write it drops
	}
	clk.t = 2 * time.Second
	wantKind(t, sp.read(fs, v, 3), kindStale)
	wantKind(t, sp.final(fs, v, 3), kindLost)
	if c := v.counts(); c[kindStale] != 1 || c[kindLost] != 1 {
		t.Fatalf("counts = %v, want one stale read and one lost write", c)
	}
}

func TestVerifierCatchesTornBlock(t *testing.T) {
	sp, fs, v, clk := slotRig(t, 0)
	buf := make([]byte, slotBytes)
	clk.t = time.Second
	if err := sp.write(fs, v, 5, buf); err != nil {
		t.Fatal(err)
	}
	fs.tearNext = true
	wantKind(t, sp.read(fs, v, 5), kindTorn)
	if c := v.counts(); c[kindTorn] != 1 {
		t.Fatalf("counts = %v, want one torn read", c)
	}
	// Another slot's bytes in place of this one's are torn too.
	id, _, _, off := sp.where(5)
	other := make([]byte, slotBytes)
	stamp(other, 0, 2, 0)
	copy(fs.files[id][off:], other)
	wantKind(t, sp.read(fs, v, 5), kindTorn)
}

func TestVerifierLeaseLagModel(t *testing.T) {
	const ttl = 2 * time.Second
	sp, fs, v, clk := slotRig(t, ttl)
	buf := make([]byte, slotBytes)
	clk.t = time.Second
	if err := sp.write(fs, v, 2, buf); err != nil { // version 1 acked at 1 s
		t.Fatal(err)
	}
	fs.serveOld = 1 // serve version 0 from here on

	// At 2.5 s, version 1 is 1.5 s old: serving 0 lags within the TTL.
	clk.t = 2500 * time.Millisecond
	if err := sp.read(fs, v, 2); err != nil {
		t.Fatalf("lag within the TTL rejected: %v", err)
	}
	if c := v.counts(); c[kindStaleWithinTT] != 1 || c[kindStale] != 0 {
		t.Fatalf("counts = %v, want one read stale within the TTL", c)
	}
	// At 3.5 s, version 1 is older than the TTL: serving 0 is a failure.
	clk.t = 3500 * time.Millisecond
	wantKind(t, sp.read(fs, v, 2), kindStale)
	if c := v.counts(); c[kindStale] != 1 {
		t.Fatalf("counts = %v, want one stale read", c)
	}
}

func TestVerifierUncachedModelAllowsNoLag(t *testing.T) {
	sp, fs, v, clk := slotRig(t, 0)
	buf := make([]byte, slotBytes)
	clk.t = time.Second
	if err := sp.write(fs, v, 1, buf); err != nil {
		t.Fatal(err)
	}
	fs.serveOld = 1
	clk.t = time.Second + time.Millisecond
	wantKind(t, sp.read(fs, v, 1), kindStale)
}

func TestVerifierReadErrorIsNotASuccess(t *testing.T) {
	sp, fs, v, _ := slotRig(t, 0)
	fs.readErr = errors.New("boom")
	if err := sp.read(fs, v, 0); err == nil {
		t.Fatal("a failed read was reported as a success")
	}
	fs.readErr = errors.New("boom")
	wantKind(t, sp.final(fs, v, 0), kindLost)
}

func TestVerifierCountsCrashRecoveryLosses(t *testing.T) {
	fac, sp, err := setupTxn()
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Close()
	v := newVerifier(txnFiles*recordsPerFile, 0, wallClock())
	tr := newTracer(v.now, clientIDs(clients))
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, recordBytes)
	for i := 0; i < 50; i++ {
		if _, err := commitOnce(fac, sp, v, tr, rng, i%clients, uint64(101+i%clients), buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := fac.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := fac.Recover(); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < txnFiles; f++ {
		for r := 0; r < recordsPerFile; r++ {
			if err := checkRecord(fac, sp, v, f, r); err != nil {
				t.Fatalf("record %d/%d after an honest recovery: %v", f, r, err)
			}
		}
	}
	// Find a record that was committed past version 0 and put version 0
	// back, as a recovery that lost the commit would.
	for f := 0; f < txnFiles; f++ {
		for r := 0; r < recordsPerFile; r++ {
			if acked, _ := v.lastAckedBefore(recSlot(f, r), v.now()+1); acked == 0 {
				continue
			}
			old := make([]byte, recordBytes)
			stamp(old, uint32(f), uint32(r), 0)
			if _, err := fac.Files.WriteAt(sp.fids[f], int64(r)*recordBytes, old); err != nil {
				t.Fatal(err)
			}
			wantKind(t, checkRecord(fac, sp, v, f, r), kindLost)
			if c := v.counts(); c[kindLost] != 1 {
				t.Fatalf("counts = %v, want one lost write", c)
			}
			return
		}
	}
	t.Fatal("no record was committed past version 0")
}
