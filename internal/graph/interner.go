package graph

// Interner maps label strings to dense LabelIDs and back. The zero value is
// ready to use. Interner is not safe for concurrent mutation; all graphs are
// finalized before being shared across goroutines.
type Interner struct {
	byName map[string]LabelID
	names  []string
}

// Intern returns the id for s, allocating one if necessary.
func (in *Interner) Intern(s string) LabelID {
	if id, ok := in.byName[s]; ok {
		return id
	}
	if in.byName == nil {
		in.byName = make(map[string]LabelID)
	}
	id := LabelID(len(in.names))
	in.byName[s] = id
	in.names = append(in.names, s)
	return id
}

// internBytes is Intern for a label read into a buffer: the string is
// allocated once per distinct label, not once per occurrence.
func (in *Interner) internBytes(b []byte) LabelID {
	if id, ok := in.byName[string(b)]; ok {
		return id
	}
	return in.Intern(string(b))
}

// Lookup returns the id for s, or NoLabel when s has not been interned.
func (in *Interner) Lookup(s string) LabelID {
	if id, ok := in.byName[s]; ok {
		return id
	}
	return NoLabel
}

// Name returns the string for id. It panics on ids never handed out.
func (in *Interner) Name(id LabelID) string { return in.names[id] }

// Len returns the number of interned labels.
func (in *Interner) Len() int { return len(in.names) }
