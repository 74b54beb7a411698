package hypergraph

// GHWAtMost exposes the exact width search to the oracle tests of package
// hypergraph_test.
func GHWAtMost(h *Hypergraph, k int) (int, bool) { return h.ghwAtMost(k) }
