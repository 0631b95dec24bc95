package synth

import (
	"maps"
	"slices"

	"repro/internal/config"
	"repro/internal/logic"
)

// VocabCheck compares the vocabulary an encoder over sketch derives
// from the base b (WithBase) with the one built from scratch. equal
// reports value-for-value equality of every sort and item list;
// sameItems that the sketch's community and next-hop-IP items are the
// base's; shared that the derived encoder uses the base's own sort
// values.
func VocabCheck(b *Base, sketch config.Deployment) (equal, sameItems, shared bool) {
	derived := NewEncoder(b.net, sketch, b.opts).WithBase(b).vocab()
	fresh := buildVocab(b.net, countVocab(sketch))
	equal = vocabEqual(derived, fresh)
	sameItems = slices.Equal(fresh.communities, b.vocab.communities) && slices.Equal(fresh.ips, b.vocab.ips)
	shared = derived.commSort == b.vocab.commSort && derived.ipSort == b.vocab.ipSort
	return equal, sameItems, shared
}

// BaseIndexCheck reports whether b's vocabulary index and vocabulary
// equal the ones counted and built from scratch over its deployment.
func BaseIndexCheck(b *Base) bool {
	want := countVocab(b.dep)
	return maps.Equal(b.counts, want) && vocabEqual(b.vocab, buildVocab(b.net, want))
}

func vocabEqual(a, b *vocab) bool {
	return logic.SameSort(a.actionSort, b.actionSort) && logic.SameSort(a.prefixSort, b.prefixSort) &&
		logic.SameSort(a.commSort, b.commSort) && logic.SameSort(a.nbrSort, b.nbrSort) &&
		logic.SameSort(a.ipSort, b.ipSort) && slices.Equal(a.prefixes, b.prefixes) &&
		slices.Equal(a.communities, b.communities) && slices.Equal(a.ips, b.ips)
}
