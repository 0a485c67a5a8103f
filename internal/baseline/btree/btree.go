// Package btree implements the binary-search-tree anti-collision
// protocol the paper's related-work section cites (§11, [31]) as the
// other classic TDMA-family identification scheme besides Framed Slotted
// Aloha.
//
// The reader walks a binary tree over the temporary-id space: it
// broadcasts a prefix query; every unidentified tag whose id starts with
// that prefix replies with its id. An empty reply prunes the subtree, a
// singleton identifies a tag, and a collision splits the prefix into its
// two children. Deterministic, starvation-free, and — like FSA — paying
// per-tag dialogue costs that Buzz's collision-as-code design removes.
//
// Complexity: identifying K tags with B-bit ids costs at most
// 2K−1 collision/singleton queries plus the pruned empties; expected
// total queries ≈ 2.9K for random ids (Hush & Wood, 1998).
package btree

import (
	"fmt"

	"repro/internal/epc"
	"repro/internal/prng"
)

// Config parameterizes a binary-tree identification run. It has no
// fields: tags draw RN16 temporary ids (epc.RN16Bits), and a pruned
// branch costs emptySlotBits of listening time.
type Config struct{}

// emptySlotBits is the listening time charged for a pruned branch, in
// uplink bit durations.
const emptySlotBits = 2

// Result reports a run.
type Result struct {
	// Identified is how many tags completed the dialogue.
	Identified int
	// Queries counts reader prefix broadcasts; Empties, Singles and
	// Collisions classify the replies.
	Queries, Empties, Singles, Collisions int
	// Time is the air-time account.
	Time epc.TimeAccount
	// Duplicates counts tags that drew identical temporary ids and were
	// merged into one leaf (the rare failure all temp-id schemes share).
	Duplicates int
}

// Run identifies k tags whose temporary ids are drawn uniformly from the
// id space by src.
func Run(cfg Config, k int, src *prng.Source) (*Result, error) {
	if k < 0 {
		return nil, fmt.Errorf("btree: negative tag count %d", k)
	}
	res := &Result{}
	if k == 0 {
		return res, nil
	}
	bitsN := epc.RN16Bits
	ids := make([]uint64, k)
	for i := range ids {
		ids[i] = uint64(prng.UintN(src.Uint64(), 1<<uint(bitsN)))
	}

	// Depth-first walk with an explicit stack of (prefix, length).
	type node struct {
		prefix uint64
		length int
	}
	stack := []node{{0, 0}}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		// Count tags matching the prefix.
		matching := 0
		for _, id := range ids {
			if id>>uint(bitsN-n.length) == n.prefix {
				matching++
			}
		}

		// The reader broadcasts the prefix (command code + prefix bits).
		res.Queries++
		res.Time.AddDownlink(float64(4 + n.length))
		res.Time.AddTurnaround(1)

		switch {
		case matching == 0:
			res.Empties++
			res.Time.AddUplink(emptySlotBits)
		case matching == 1:
			res.Singles++
			res.Identified++
			// The tag replies with its full id; the reader ACKs.
			res.Time.AddUplink(float64(bitsN))
			res.Time.AddTurnaround(2)
			res.Time.AddDownlink(float64(2 + bitsN))
		default:
			if n.length == bitsN {
				// Identical ids: indistinguishable leaf.
				res.Collisions++
				res.Identified++ // the reader sees "one" tag here
				res.Duplicates += matching
				res.Time.AddUplink(float64(bitsN))
				res.Time.AddTurnaround(2)
				res.Time.AddDownlink(float64(2 + bitsN))
				continue
			}
			res.Collisions++
			// The colliding replies occupy a slot, then the reader
			// splits the prefix.
			res.Time.AddUplink(float64(bitsN))
			stack = append(stack,
				node{prefix: n.prefix<<1 | 1, length: n.length + 1},
				node{prefix: n.prefix << 1, length: n.length + 1},
			)
		}
	}
	return res, nil
}
