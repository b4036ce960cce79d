// Package lintdirective exercises //lint:ignore hygiene: an ignore
// without a justification suppresses nothing and is itself reported,
// as is an ignore naming an unknown analyzer. Checked by a dedicated
// unit test (not RunGolden) because the diagnostics land on the ignore
// comments themselves.
package lintdirective

import "pmem"

type cell struct {
	port *pmem.Port
	//persist:rcas-managed
	word pmem.Addr
}

func (c *cell) missingJustification(v uint64) {
	//lint:ignore rawcas
	c.port.Write(c.word, v)
}

func (c *cell) unknownAnalyzer(v uint64) {
	//lint:ignore nosuchanalyzer the analyzer list must name real analyzers
	c.port.Write(c.word, v)
}

func (c *cell) properlyIgnored(v uint64) {
	//lint:ignore rawcas quiescent setup write before any process attaches
	c.port.Write(c.word, v)
}
