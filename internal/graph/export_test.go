package graph

// The reference builders and the build comparison, for the external test
// package, which can import the generators and DPar.
var (
	ReferenceFinalize   = referenceFinalize
	ReferenceInducedOf  = referenceInducedOf
	ReferenceRead       = referenceRead
	ReferenceReadBinary = referenceReadBinary
	ReferenceWriteTo    = referenceWriteTo
	SameBuild           = sameBuild
)

// RowCap returns the edges a row of v has room for in its region.
func RowCap(g *Graph, in bool, v NodeID) int {
	_, r := g.adj(in).region(int(g.adj(in).off[v]))
	return int(g.adj(in).arena[g.adj(in).off[v]].Label) - r
}

// Slots returns the arena slots of both directions: those the rows'
// regions take (the empty region's included) and those the arenas hold.
func Slots(g *Graph) (regions, held int) {
	for _, a := range []*adjacency{&g.out, &g.in} {
		regions += header
		for _, o := range a.off {
			if o != 0 {
				regions += header + int(a.arena[o].Label)
			}
		}
		held += cap(a.arena)
	}
	return regions, held
}
