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
