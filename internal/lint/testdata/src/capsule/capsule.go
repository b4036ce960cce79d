// Package capsule is the golden-test stub of delayfree/internal/capsule.
package capsule

type Ctx struct{ ro bool }

func (c *Ctx) ReadOnly()   { c.ro = true }
func (c *Ctx) BoundaryRO() {}
func (c *Ctx) DoneRO()     {}
func (c *Ctx) Boundary()   {}
func (c *Ctx) Done()       {}
