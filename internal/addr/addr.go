// Package addr centralizes physical-address arithmetic: cache blocks,
// pages, split-counter lines and MAC lines all derive from a block
// address in one place so the mapping is consistent across the data
// path, metadata path and recovery.
package addr

import "slices"

// Layout constants shared across the simulator.
const (
	// BlockBytes is the cache line / SecPB entry data size.
	BlockBytes = 64
	// BlockShift is log2(BlockBytes).
	BlockShift = 6
	// PageBytes is the encryption-page size used by the split-counter
	// scheme: one 64B counter line covers one 4KB page.
	PageBytes = 4096
	// PageShift is log2(PageBytes).
	PageShift = 12
	// BlocksPerPage is the number of data blocks per encryption page,
	// i.e. the number of minor counters per counter line.
	BlocksPerPage = PageBytes / BlockBytes
	// MACsPerLine is the number of block MACs stored per 64B MAC line
	// when MACs are truncated to 8B in PM (the full 512-bit MAC lives
	// in the SecPB entry; PM stores the truncated tag line).
	MACsPerLine = 8
)

// Block is a physical cache-block address (always block aligned).
type Block uint64

// BlockOf returns the block containing byte address b.
func BlockOf(byteAddr uint64) Block { return Block(byteAddr &^ (BlockBytes - 1)) }

// Index returns the block index (address / 64).
func (b Block) Index() uint64 { return uint64(b) >> BlockShift }

// Addr returns the byte address of the block.
func (b Block) Addr() uint64 { return uint64(b) }

// Page returns the encryption page number containing the block.
func (b Block) Page() uint64 { return uint64(b) >> PageShift }

// PageOffset returns the block's index within its encryption page,
// which selects the minor counter within the counter line.
func (b Block) PageOffset() int { return int(b.Index() % BlocksPerPage) }

// CounterLine returns the index of the 64B counter line holding the
// block's split counter (one line per page).
func (b Block) CounterLine() uint64 { return b.Page() }

// MACLine returns the index of the 64B MAC line holding the block's
// truncated MAC.
func (b Block) MACLine() uint64 { return b.Index() / MACsPerLine }

// MACOffset returns the slot within the MAC line.
func (b Block) MACOffset() int { return int(b.Index() % MACsPerLine) }

// AppendBlocks bulk-decomposes a column of byte addresses into their
// containing blocks, appending to dst and returning it. The engine's
// columnar batch replay decomposes a whole trace.Batch in one pass
// (reusing dst's backing array across batches) instead of per op.
func AppendBlocks(dst []Block, byteAddrs []uint64) []Block {
	for _, a := range byteAddrs {
		dst = append(dst, Block(a&^(BlockBytes-1)))
	}
	return dst
}

// Aligned reports whether a byte address is block aligned.
func Aligned(byteAddr uint64) bool { return byteAddr&(BlockBytes-1) == 0 }

// FromIndex returns the block with the given index.
func FromIndex(idx uint64) Block { return Block(idx << BlockShift) }

// SortedBlocks returns the keys of a block-keyed map in ascending
// address order, so a walk over the map (and the first failure it
// reports) is deterministic.
func SortedBlocks[V any](m map[Block]V) []Block {
	out := make([]Block, 0, len(m))
	for b := range m {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}
