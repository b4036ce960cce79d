package lint

// All returns the persistlint suite in its canonical order. cmd/
// persistlint registers exactly this list, and the meta-test asserts
// every entry has a golden fixture — adding an analyzer here without
// one fails the build's own tests.
func All() []*Analyzer {
	return []*Analyzer{
		RawCas,
		FenceOrder,
		RoPurity,
		PackedAccess,
	}
}
