// Package index describes block-aware secondary indexes, which the BaaV
// store (package baav) keeps as KV schemas of its own.
//
// A secondary index on rel(attr) maps every value of a non-key attribute to
// the set of block keys — the source relation's primary-key tuples K — of
// the tuples carrying that value. In the paper's terms it is the KV schema
// R⟨A, K⟩: the block under a value a is its posting list. Postings are
// blocks of the store like any other, so one commit stages a write's block
// and posting edits together, one version directory versions them, and one
// watermark reclaims them. A pinned reader's lookup or range walk is exact
// at its sequence, and an index lookup keeps the paper's round-trip
// economics: one batched round of gets fetches the posting, then one get per
// posted block key fetches exactly the blocks the query needs.
//
// Physical layout. A posting list is cut into fragments of at most M block
// keys, each an ordinary block of the KV schema R⟨(A, fence), K⟩: its key is
// the value and the fragment's fence, its block the sorted keys it owns.
// The first fragment's fence is K's width of NULLs, which sorts below every
// key; each later one's is the first key it was cut at. Index ids set the
// top bit of the 4-byte id word, so posting blocks never share a prefix with
// a BaaV instance's, and like every block a fragment's segment key carries
// its segment and version:
//
//	[0x80000000|id] enc(v) enc(NULL…)  seg ^ver  ->  pk1 .. pk120
//	[0x80000000|id] enc(v) enc(pk121)  seg ^ver  ->  pk121 .. pk240
//	[0x80000000|id] enc(v) enc(pk241)  seg ^ver  ->  pk241 .. pk310
//
// Fragments are encoded in the compact block codec as one segment with no
// statistics header. Every fragment of a value is routed by the value's
// prefix, so a lookup reads them all from one node in one round. The store
// keeps a directory of each value's fences and lengths, so an indexed write
// reads and rewrites only the fragment that owns its block key — O(M)
// posting bytes whatever the list's length — and a commit that grows a
// fragment past M splits it into even pieces. A drained fragment is a
// tombstone until reclamation drops it. Range predicates walk the index's
// blocks in key order, which is (value, fence, version) order.
package index

// M is the most block keys one posting fragment holds: 0.5–0.8 KB of
// integer keys in the compact codec.
const M = 128
