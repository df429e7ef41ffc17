package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Every byte a workload writes is stamped: a 32-byte header naming the
// file, slot, length and version, then a fill drawn from a PRNG seeded by
// (file, slot, version). A reader that knows which slot it asked for can
// therefore check every byte it got back and say which version it saw.
const (
	stampMagic  = 0x52484253 // "RHBS"
	headerBytes = 32
)

// stamp fills buf with the content of version ver of (file, slot).
func stamp(buf []byte, file, slot uint32, ver uint64) {
	binary.BigEndian.PutUint32(buf[0:], stampMagic)
	binary.BigEndian.PutUint32(buf[4:], file)
	binary.BigEndian.PutUint32(buf[8:], slot)
	binary.BigEndian.PutUint32(buf[12:], uint32(len(buf)))
	binary.BigEndian.PutUint64(buf[16:], ver)
	binary.BigEndian.PutUint64(buf[24:], 0)
	fillAt(buf[headerBytes:], file, slot, ver, 0)
}

// decodeStamp returns the version data carries if it is a whole, intact
// stamp of (file, slot); ok is false for anything else — a short or long
// read, another slot's bytes, or a block mixing two versions.
func decodeStamp(data []byte, file, slot uint32, want int) (ver uint64, ok bool) {
	if len(data) != want || want < headerBytes {
		return 0, false
	}
	if binary.BigEndian.Uint32(data[0:]) != stampMagic ||
		binary.BigEndian.Uint32(data[4:]) != file ||
		binary.BigEndian.Uint32(data[8:]) != slot ||
		binary.BigEndian.Uint32(data[12:]) != uint32(want) {
		return 0, false
	}
	ver = binary.BigEndian.Uint64(data[16:])
	var ref [4096]byte
	body := data[headerBytes:]
	for off := 0; off < len(body); off += len(ref) {
		n := len(body) - off
		if n > len(ref) {
			n = len(ref)
		}
		fillAt(ref[:n], file, slot, ver, off)
		for i := 0; i < n; i++ {
			if body[off+i] != ref[i] {
				return ver, false
			}
		}
	}
	return ver, true
}

// fillAt writes the bytes of the fill stream of (file, slot, ver) that
// start at byte off (a multiple of 8) into b. The stream is splitmix64.
func fillAt(b []byte, file, slot uint32, ver uint64, off int) {
	x := uint64(file)<<32 ^ uint64(slot) ^ ver*0x9e3779b97f4a7c15
	x += uint64(off/8) * 0x9e3779b97f4a7c15
	var w [8]byte
	for len(b) > 0 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(w[:], z)
		b = b[copy(b, w[:]):]
	}
}

// Failure kinds the verifier counts. None is ever recorded as a success.
const (
	kindStale         = "verify.stale_reads"      // older than the consistency model allows
	kindTorn          = "verify.torn_reads"       // not a whole stamp of the slot asked for
	kindLost          = "verify.lost_writes"      // final read after quiesce+flush lacks an acked write
	kindStaleWithinTT = "verify.stale_within_ttl" // leased read lagging, but within one lease TTL (allowed)
)

// ack is one acknowledged write: version v returned to its writer at t.
type ack struct {
	v uint64
	t time.Duration
}

// slotLog is the write history of one slot. A slot has exactly one writing
// client, whose writes are sequential, so versions and ack times both rise.
type slotLog struct {
	mu     sync.Mutex
	issued uint64 // highest version whose write has begun
	acks   []ack  // acknowledged writes, in version order
}

// Verifier checks reads against the consistency model of one workload:
// a read must return a version at least as new as the last write
// acknowledged before the read began, less an allowed lag (zero for
// uncached access, one lease TTL for leased reads), and never a version
// whose write had not begun by the time the read returned.
type Verifier struct {
	lag   time.Duration
	now   func() time.Duration
	slots []slotLog

	stale, torn, lost, withinTTL atomic.Int64
}

// newVerifier tracks n slots, each starting at an acknowledged version 0
// (the populate pass). lag is the staleness the model tolerates; now is the
// clock reads and writes are stamped with.
func newVerifier(n int, lag time.Duration, now func() time.Duration) *Verifier {
	v := &Verifier{lag: lag, now: now, slots: make([]slotLog, n)}
	for i := range v.slots {
		v.slots[i].acks = []ack{{0, math.MinInt64}}
	}
	return v
}

// wallClock returns a clock reading the time since it was made.
func wallClock() func() time.Duration {
	t0 := time.Now()
	return func() time.Duration { return time.Since(t0) }
}

// beginWrite returns the version the next write of slot s carries.
func (v *Verifier) beginWrite(s int) uint64 {
	sl := &v.slots[s]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.issued++
	return sl.issued
}

// endWrite records the outcome of writing version ver of slot s. A failed
// write is not acknowledged; it may or may not have taken effect, which
// the issued bound already allows for.
func (v *Verifier) endWrite(s int, ver uint64, ok bool) {
	if !ok {
		return
	}
	t := v.now()
	sl := &v.slots[s]
	sl.mu.Lock()
	sl.acks = append(sl.acks, ack{ver, t})
	sl.mu.Unlock()
}

// lastAckedBefore is the newest version of slot s acknowledged before t,
// and the newest version issued at all.
func (v *Verifier) lastAckedBefore(s int, t time.Duration) (acked, issued uint64) {
	sl := &v.slots[s]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	i := sort.Search(len(sl.acks), func(i int) bool { return sl.acks[i].t >= t })
	return sl.acks[i-1].v, sl.issued
}

// checkRead judges one read of slot s: data came back for a read that
// began at start. It returns nil for a read the model accepts, and an
// error naming the failure kind (already counted) otherwise. A read that
// lags within the tolerated window is accepted and counted separately.
func (v *Verifier) checkRead(s int, file, slot uint32, want int, data []byte, start time.Duration) error {
	ver, ok := decodeStamp(data, file, slot, want)
	if !ok {
		v.torn.Add(1)
		return fmt.Errorf("%s: slot %d/%d", kindTorn, file, slot)
	}
	need, issued := v.lastAckedBefore(s, start)
	if ver > issued {
		v.torn.Add(1)
		return fmt.Errorf("%s: slot %d/%d returned unissued version %d", kindTorn, file, slot, ver)
	}
	if ver >= need {
		return nil
	}
	if v.lag > 0 {
		if floor, _ := v.lastAckedBefore(s, start-v.lag); ver >= floor {
			v.withinTTL.Add(1)
			return nil
		}
	}
	v.stale.Add(1)
	return fmt.Errorf("%s: slot %d/%d returned version %d, %d was acknowledged before the read", kindStale, file, slot, ver, need)
}

// checkFinal judges the read of slot s made after the workload quiesced
// and the server flushed: it must carry the last acknowledged version (or
// a later one whose write failed in flight).
func (v *Verifier) checkFinal(s int, file, slot uint32, want int, data []byte) error {
	ver, ok := decodeStamp(data, file, slot, want)
	need, issued := v.lastAckedBefore(s, v.now()+1)
	if ok && ver >= need && ver <= issued {
		return nil
	}
	v.lost.Add(1)
	if !ok {
		return fmt.Errorf("%s: slot %d/%d unreadable after flush", kindLost, file, slot)
	}
	return fmt.Errorf("%s: slot %d/%d holds version %d after flush, %d was acknowledged", kindLost, file, slot, ver, need)
}

// checkExact judges a read of content written exactly once (a small file):
// data must be version ver of (file, slot), whole. A mismatch counts as torn
// during the run and as a lost write in the final pass.
func (v *Verifier) checkExact(file, slot uint32, want int, ver uint64, data []byte, final bool) error {
	got, ok := decodeStamp(data, file, slot, want)
	if ok && got == ver {
		return nil
	}
	kind := kindTorn
	if final {
		kind = kindLost
		v.lost.Add(1)
	} else {
		v.torn.Add(1)
	}
	return fmt.Errorf("%s: file %d/%d (%d bytes) does not read back as written", kind, file, slot, want)
}

// countStale records a read that failed to observe an acknowledged write
// by erroring out (a created file that no longer resolves).
func (v *Verifier) countStale() { v.stale.Add(1) }

// counts returns the failure counts by kind.
func (v *Verifier) counts() map[string]int64 {
	return map[string]int64{
		kindStale:         v.stale.Load(),
		kindTorn:          v.torn.Load(),
		kindLost:          v.lost.Load(),
		kindStaleWithinTT: v.withinTTL.Load(),
	}
}
