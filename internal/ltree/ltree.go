// Package ltree implements a tournament tree of losers, Knuth's classical
// structure for R-way internal merging (TAOCP vol. 3, Section 5.4.1 —
// exactly the reference the paper gives for internal merge processing in
// Section 5).
//
// Compared with a binary heap, the loser tree performs one root-to-leaf
// pass of exactly ceil(log2 R) comparisons per emitted record regardless
// of input order, which is why external sorters traditionally prefer it
// for their inner loop. The API is shaped for merging: every player holds
// one key; the winner is read with Min and replaced (the next record of
// the same run) or retired (run exhausted) in O(log R).
//
// Beyond the classical winner-only operations, the tree supports the
// dynamic membership the SRM merge needs — Push re-activates a retired
// player (a stalled run whose leading block arrived) and Remove retires an
// arbitrary one — and Challenger exposes the runner-up, which bounds how
// many records the winner may emit in one galloped span. Push and
// non-winner updates rebuild the tournament in O(R); the merge kernels
// only perform them at block events, never per record, so the per-record
// cost stays at the winner-replay O(log R).
//
// Aliveness is tracked explicitly, not through the key value: a live
// player may legitimately hold Infinite (a record whose key is the maximal
// uint64). The Infinite sentinel keeps its historical meaning only at the
// legacy entry points New (players born retired) and ReplaceMin
// (retirement).
//
// Ties are broken by player index, matching the iheap-based mergers, so
// the two engines produce byte-identical merge output. The KV entry
// points (PushKV, UpdateKV, UpdateMinKV, ChallengerKV) interpose a
// secondary value between the key and the index — (key, val, index) —
// which is how the parallel sort's merge-back reproduces SortRecords'
// (key, val) order exactly; the plain entry points pin the value to zero,
// so trees that never call a KV method behave exactly as before.
package ltree

import "fmt"

// Infinite is the sentinel key accepted by New and ReplaceMin to mean
// "retired". Key reports it for retired players.
const Infinite = ^uint64(0)

// node is one slot of the tournament: a player together with everything
// a match reads about it. Internal node i (1 <= i < n) holds the loser of
// the match played there and node 0 the overall winner, so every player
// occupies exactly one node and the nodes are the tree's only per-player
// state. A match compares two contiguous nodes instead of chasing player
// indices into parallel key, value and aliveness arrays.
type node struct {
	key     uint64
	val     uint64 // secondary tie value; zero unless set via a KV method
	player  int32
	retired bool // explicit aliveness: retired players lose every match
}

// Tree is a loser tree over players 0..n-1. Construct with New.
type Tree struct {
	n       int
	nodes   []node // nodes[0] is the winner, nodes[1..n-1] the match losers
	alive   int
	scratch []node // rebuild's leaves (n..2n-1) and match winners (1..n-1), allocated once
	tie     func(a, b int) int
}

// newTree allocates a tree over n players whose leaves the caller fills
// before the first rebuild.
func newTree(n int) *Tree {
	if n == 0 {
		panic("ltree: no players")
	}
	return &Tree{n: n, nodes: make([]node, n), scratch: make([]node, 2*n)}
}

// New builds a tree over the given initial keys (one per player). Players
// whose runs are empty can be passed Infinite and count as retired.
func New(keys []uint64) *Tree {
	t := newTree(len(keys))
	leaves := t.scratch[t.n:]
	for p, k := range keys {
		leaves[p] = node{key: k, player: int32(p), retired: k == Infinite}
		if k != Infinite {
			t.alive++
		}
	}
	t.rebuild()
	return t
}

// NewRetired builds a tree over n players, all retired — the starting
// state of a merge that activates runs with Push as their leading blocks
// arrive.
func NewRetired(n int) *Tree {
	t := newTree(n)
	leaves := t.scratch[t.n:]
	for p := range leaves {
		leaves[p] = node{player: int32(p), retired: true}
	}
	t.rebuild()
	return t
}

// leaves copies every player's node into its leaf slot of the rebuild
// scratch and returns the leaves, indexed by player, for the caller to
// modify before rebuild.
func (t *Tree) leaves() []node {
	leaves := t.scratch[t.n:]
	for _, nd := range t.nodes {
		leaves[nd.player] = nd
	}
	return leaves
}

// rebuild recomputes the whole tournament in O(n) from the leaves in
// scratch[n:2n].
func (t *Tree) rebuild() {
	// Play the tournament bottom-up: winner[i] for internal node i of a
	// complete binary tree with n leaves (players) at positions n..2n-1.
	winner := t.scratch
	for i := t.n - 1; i >= 1; i-- {
		a, b := winner[2*i], winner[2*i+1]
		if !t.beats(a, b) {
			a, b = b, a
		}
		winner[i], t.nodes[i] = a, b
	}
	t.nodes[0] = winner[1]
}

// SetTie installs a tie-break comparator consulted only when two LIVE
// players hold equal (key, val) pairs, before the final index tie-break.
// It returns negative/zero/positive like a three-way compare; a zero
// result (or a nil comparator, the default) falls through to the index.
//
// This is the variable-length record hook: prefix words can tie while
// full keys differ, and the comparator adjudicates by the players'
// current head records (CompareExt). For fixed-size records no
// comparator is installed and the tree's behavior is bit-for-bit its
// historical (key, val, index) order. The comparator must be consistent
// while installed: it is invoked during rebuilds, so both players' head
// records must be current before any Push/Update that triggers one.
func (t *Tree) SetTie(tie func(a, b int) int) { t.tie = tie }

// beats reports whether a wins a match against b: retired players lose
// to live ones, live players compare by (key, val, index) — the smaller
// key wins, key ties go to the smaller val, full ties to the lower index
// — and retired pairs order by index (irrelevant, but total). Players
// never touched by a KV method all hold val zero, so for them the order
// collapses to the classical (key, index). A SetTie comparator, when
// installed, interposes between the val and index tie-breaks.
func (t *Tree) beats(a, b node) bool {
	if a.retired != b.retired {
		return !a.retired
	}
	if !a.retired {
		if a.key != b.key {
			return a.key < b.key
		}
		if a.val != b.val {
			return a.val < b.val
		}
		if t.tie != nil {
			if c := t.tie(int(a.player), int(b.player)); c != 0 {
				return c < 0
			}
		}
	}
	return a.player < b.player
}

// Len returns the number of live players.
func (t *Tree) Len() int { return t.alive }

// Min returns the winning player and its key. It panics when every player
// has retired.
func (t *Tree) Min() (player int, key uint64) {
	if t.alive == 0 {
		panic("ltree: Min of empty tree")
	}
	return int(t.nodes[0].player), t.nodes[0].key
}

// Challenger returns the runner-up: the player that would win if the
// current winner retired, and its key. ok is false when fewer than two
// players are live. The runner-up necessarily lost its match against the
// winner, so it is the best of the losers stored on the winner's
// leaf-to-root path — an O(log R) scan with no mutation.
func (t *Tree) Challenger() (player int, key uint64, ok bool) {
	best := t.challenger()
	if best == nil {
		return -1, Infinite, false
	}
	return int(best.player), best.key, true
}

// ChallengerKV is Challenger extended with the runner-up's secondary tie
// value, for merges galloping under the (key, val, index) order.
func (t *Tree) ChallengerKV() (player int, key, val uint64, ok bool) {
	best := t.challenger()
	if best == nil {
		return -1, Infinite, 0, false
	}
	return int(best.player), best.key, best.val, true
}

// challenger returns the runner-up's node, nil when fewer than two
// players are live.
func (t *Tree) challenger() *node {
	if t.alive < 2 {
		return nil
	}
	var best *node
	for i := (t.n + int(t.nodes[0].player)) / 2; i >= 1; i /= 2 {
		l := &t.nodes[i]
		if l.retired {
			continue
		}
		if best == nil || t.beats(*l, *best) {
			best = l
		}
	}
	return best
}

// ReplaceMin gives the current winner a new key (the next record of its
// run) and replays its path to the root in O(log R). ReplaceMin(Infinite)
// retires the winner (the legacy sentinel); use Update to hand a live
// player a genuine Infinite key. The secondary tie value resets to zero.
func (t *Tree) ReplaceMin(key uint64) {
	if t.alive == 0 {
		panic("ltree: ReplaceMin of empty tree")
	}
	w := &t.nodes[0]
	if key == Infinite {
		w.retired = true
		t.alive--
	}
	w.key = key
	w.val = 0
	t.replay()
}

// UpdateMin re-keys the current winner, taking key at face value
// (Infinite is a legal key here) and resetting its secondary tie value to
// zero, then replays its path in O(log R). It is Update specialised to
// the winner for the merge kernels' per-record step, and checks nothing:
// the caller guarantees a live winner (Len() > 0).
func (t *Tree) UpdateMin(key uint64) {
	t.UpdateMinKV(key, 0)
}

// UpdateMinKV is UpdateMin with an explicit secondary tie value.
func (t *Tree) UpdateMinKV(key, val uint64) {
	w := &t.nodes[0]
	w.key = key
	w.val = val
	t.replay()
}

// DeleteMin retires the current winner (its run is exhausted).
func (t *Tree) DeleteMin() {
	if t.alive == 0 {
		panic("ltree: DeleteMin of empty tree")
	}
	t.nodes[0].retired = true
	t.alive--
	t.replay()
}

// Update gives a live player a new key, taken at face value (Infinite is a
// legal key here), and resets its secondary tie value to zero. Updating
// the current winner costs one O(log R) replay (UpdateMin is the
// unchecked form of that case); any other player costs an O(n) rebuild —
// merge kernels only do that at block events.
func (t *Tree) Update(player int, key uint64) {
	t.UpdateKV(player, key, 0)
}

// UpdateKV is Update with an explicit secondary tie value: until its next
// reassignment the player compares by (key, val, index). The parallel
// sort's merge-back uses it to order duplicate keys exactly as
// SortRecords does.
func (t *Tree) UpdateKV(player int, key, val uint64) {
	t.check(player)
	if w := &t.nodes[0]; int(w.player) == player {
		if w.retired {
			panic(fmt.Sprintf("ltree: Update of retired player %d", player))
		}
		w.key, w.val = key, val
		t.replay()
		return
	}
	leaves := t.leaves()
	if leaves[player].retired {
		panic(fmt.Sprintf("ltree: Update of retired player %d", player))
	}
	leaves[player].key, leaves[player].val = key, val
	t.rebuild()
}

// Push activates a retired player with the given key (taken at face
// value), rebuilding the tournament in O(n). Merge kernels call it when a
// stalled run's leading block arrives — once per block, never per record.
// The secondary tie value resets to zero.
func (t *Tree) Push(player int, key uint64) {
	t.PushKV(player, key, 0)
}

// PushKV is Push with an explicit secondary tie value.
func (t *Tree) PushKV(player int, key, val uint64) {
	t.check(player)
	leaves := t.leaves()
	if !leaves[player].retired {
		panic(fmt.Sprintf("ltree: Push of live player %d", player))
	}
	leaves[player] = node{key: key, val: val, player: int32(player)}
	t.alive++
	t.rebuild()
}

// Remove retires a live player. Retiring the current winner is the
// O(log R) DeleteMin; any other player costs an O(n) rebuild.
func (t *Tree) Remove(player int) {
	t.check(player)
	if w := &t.nodes[0]; int(w.player) == player {
		if w.retired {
			panic(fmt.Sprintf("ltree: Remove of retired player %d", player))
		}
		w.retired = true
		t.alive--
		t.replay()
		return
	}
	leaves := t.leaves()
	if leaves[player].retired {
		panic(fmt.Sprintf("ltree: Remove of retired player %d", player))
	}
	leaves[player].retired = true
	t.alive--
	t.rebuild()
}

// Key returns the current key of a player (Infinite if retired). It scans
// the nodes for the player, O(n): a diagnostic, not a kernel operation.
func (t *Tree) Key(player int) uint64 {
	t.check(player)
	for _, nd := range t.nodes {
		if int(nd.player) == player && !nd.retired {
			return nd.key
		}
	}
	return Infinite
}

// check panics on an out-of-range player index.
func (t *Tree) check(player int) {
	if player < 0 || player >= t.n {
		panic(fmt.Sprintf("ltree: player %d of %d", player, t.n))
	}
}

// replay re-runs the matches on the winner's leaf-to-root path after
// node 0 changed. It is correct only for the tournament winner: the
// losers stored along its path are exactly the sibling subtree winners,
// so replaying against them is a valid tournament. Arbitrary-player
// changes go through rebuild instead. The candidate travels up the path
// by value; a node it loses to swaps places with it. The common match —
// two live players with distinct keys — is decided inline; everything
// else goes through beats.
func (t *Tree) replay() {
	nodes := t.nodes
	cur := nodes[0]
	for i := (uint(t.n) + uint(cur.player)) / 2; i >= 1; i /= 2 {
		other := nodes[i]
		var loses bool
		if cur.key != other.key && !cur.retired && !other.retired {
			loses = other.key < cur.key
		} else {
			loses = !t.beats(cur, other)
		}
		if loses {
			cur, other = other, cur
		}
		nodes[i] = other
	}
	nodes[0] = cur
}
