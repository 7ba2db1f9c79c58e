package addr

import (
	"testing"
	"testing/quick"
)

func TestBlockOfAligns(t *testing.T) {
	check := func(a uint64) bool {
		b := BlockOf(a)
		return Aligned(b.Addr()) && b.Addr() <= a && a-b.Addr() < BlockBytes
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	check := func(idx uint32) bool {
		b := FromIndex(uint64(idx))
		return b.Index() == uint64(idx)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestPageMath(t *testing.T) {
	b := BlockOf(0x1000) // first block of page 1
	if b.Page() != 1 || b.PageOffset() != 0 {
		t.Errorf("page/offset = %d/%d, want 1/0", b.Page(), b.PageOffset())
	}
	b2 := BlockOf(0x1FC0) // last block of page 1
	if b2.Page() != 1 || b2.PageOffset() != BlocksPerPage-1 {
		t.Errorf("page/offset = %d/%d, want 1/%d", b2.Page(), b2.PageOffset(), BlocksPerPage-1)
	}
	if b.CounterLine() != b2.CounterLine() {
		t.Error("blocks in the same page map to different counter lines")
	}
	if BlockOf(0x2000).CounterLine() == b.CounterLine() {
		t.Error("blocks in different pages share a counter line")
	}
}

func TestBlocksPerPage(t *testing.T) {
	if BlocksPerPage != 64 {
		t.Errorf("BlocksPerPage = %d, want 64", BlocksPerPage)
	}
}

func TestMACLineMath(t *testing.T) {
	// Consecutive blocks 0..7 share MAC line 0, block 8 starts line 1.
	for i := uint64(0); i < 8; i++ {
		b := FromIndex(i)
		if b.MACLine() != 0 || b.MACOffset() != int(i) {
			t.Errorf("block %d: MAC line/off = %d/%d", i, b.MACLine(), b.MACOffset())
		}
	}
	if FromIndex(8).MACLine() != 1 {
		t.Error("block 8 not on MAC line 1")
	}
}

func TestAligned(t *testing.T) {
	if !Aligned(0) || !Aligned(64) || !Aligned(0xFFC0) {
		t.Error("aligned addresses reported unaligned")
	}
	if Aligned(1) || Aligned(63) || Aligned(0xFFC1) {
		t.Error("unaligned addresses reported aligned")
	}
}

func TestSortedBlocks(t *testing.T) {
	m := map[Block]int{FromIndex(9): 0, FromIndex(2): 0, FromIndex(40): 0, FromIndex(0): 0}
	got := SortedBlocks(m)
	want := []Block{FromIndex(0), FromIndex(2), FromIndex(9), FromIndex(40)}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if len(SortedBlocks(map[Block]bool{})) != 0 {
		t.Error("empty map gave blocks")
	}
}
