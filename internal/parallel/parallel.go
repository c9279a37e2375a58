// Package parallel holds one forwarder that the benchmark module imports.
// PQMatch (§5) runs on the served cluster, internal/cluster. Delete the
// package after ROADMAP 1(a).
package parallel

import "repro/internal/core"

// RequiredHops is core.RequiredHops(q). benchmark/ imports this name;
// delete after ROADMAP 1(a).
func RequiredHops(q *core.Pattern) int { return core.RequiredHops(q) }
