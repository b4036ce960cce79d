// Package ropurity exercises the read-only-tier purity discipline (the
// PR 5 checked-mode class): functions reachable from a Ctx.ReadOnly
// capsule must not persist, except at a //persist:ro-fallback demotion
// point.
package ropurity

import (
	"capsule"
	"pmem"
	"wcas"
)

type pmap struct {
	c    *capsule.Ctx
	port *pmem.Port
	h    *wcas.Handle
}

// getCap mirrors the real map's read path: it enters the RO tier, then
// probes through find.
func (m *pmap) getCap(a pmem.Addr) uint64 {
	m.c.ReadOnly()
	return m.find(a)
}

// find is one call away from the RO root; its claim CAS persists.
func (m *pmap) find(a pmem.Addr) uint64 {
	v := m.h.ReadVolatile(a)
	if v == 0 {
		m.h.CAS(a, 0, 1) // want `persistent effect wcas\.Handle\.CAS is reachable from read-only-tier function getCap`
	}
	return v
}

// getCapFallback is the sanctioned shape: the claim is the documented
// demotion point, annotated where the effect happens.
func (m *pmap) getCapFallback(a pmem.Addr) uint64 {
	m.c.ReadOnly()
	return m.findFallback(a)
}

func (m *pmap) findFallback(a pmem.Addr) uint64 {
	v := m.h.ReadVolatile(a)
	if v == 0 {
		//persist:ro-fallback
		m.h.CAS(a, 0, 1)
	}
	return v
}

// mutate is never reached from an RO root: effects are fine.
func (m *pmap) mutate(a pmem.Addr) {
	m.port.Write(a, 1)
	m.port.PersistEpoch(a)
}
