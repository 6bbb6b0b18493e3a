package runs

// Shard-wise profiling: the profile stage's value groups are computed
// per shard and merged here. Merging is exact, not approximate — the
// merged groups are element-identical to GroupValues over the globally
// sorted projection — because every field of ValueGroup admits an
// order-insensitive combine:
//
//   - Count sums;
//   - Label is the class of the first tuple in canonical (value, label)
//     order, i.e. the minimum label among the value's tuples, and min
//     distributes over any grouping of the tuples into shards;
//   - Mono holds iff every shard's group is monochromatic AND they all
//     agree on the label.
//
// The fold proceeds in shard-index order for determinism discipline,
// though the combine is associative and commutative, so any order
// would produce the same bytes.

// MergeGroups merges per-shard value groups — each slice sorted by
// value, as GroupValues/GroupColumn produce — into the groups of the
// union of the shards. The result is element-identical to running
// GroupValues over the concatenated, globally sorted projection.
func MergeGroups(shards [][]ValueGroup) []ValueGroup {
	var acc []ValueGroup
	first := true
	for _, sh := range shards {
		if len(sh) == 0 {
			continue
		}
		if first {
			acc = append([]ValueGroup(nil), sh...)
			first = false
			continue
		}
		acc = mergeTwo(acc, sh)
	}
	return acc
}

// mergeTwo merges two value-sorted runs of groups.
func mergeTwo(a, b []ValueGroup) []ValueGroup {
	out := make([]ValueGroup, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Value < b[j].Value:
			out = append(out, a[i])
			i++
		case b[j].Value < a[i].Value:
			out = append(out, b[j])
			j++
		default:
			out = append(out, combine(a[i], b[j]))
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// combine merges two groups of the same value.
func combine(x, y ValueGroup) ValueGroup {
	g := ValueGroup{
		Value: x.Value,
		Count: x.Count + y.Count,
		Mono:  x.Mono && y.Mono && x.Label == y.Label,
		Label: x.Label,
	}
	if y.Label < g.Label {
		g.Label = y.Label
	}
	return g
}
