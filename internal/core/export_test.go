package core

// AlignWanted runs the wanted-frame alignment search on the decoder's
// workspace, for the external tests that hold it to its reference over
// every registered modem (the registry lives in phy, which imports core).
func (d *Decoder) AlignWanted(diffs []float64, lo, hi int) (int, int) {
	return d.alignWanted(d.workspace(), diffs, lo, hi)
}
