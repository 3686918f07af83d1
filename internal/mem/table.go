package mem

// GrowTable returns t extended, when needed, so that id indexes it, with
// every new entry set to fill. Block-indexed tables grow through it to
// the highest block ID they have seen; growth is amortized like append,
// so a warm table never reallocates.
func GrowTable[T any](t []T, id VABlockID, fill T) []T {
	if id < VABlockID(len(t)) {
		return t
	}
	return growTable(t, id, fill)
}

func growTable[T any](t []T, id VABlockID, fill T) []T {
	old := len(t)
	t = append(t, make([]T, int(id)+1-old)...)
	for i := old; i < len(t); i++ {
		t[i] = fill
	}
	return t
}
