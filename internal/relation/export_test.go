package relation

// ChunkValues is the capacity, in values, of every chunk the relation has
// allocated since its last re-pack: what its rows can pin at most.
func (r *Relation) ChunkValues() int { return r.chunkValues }

// MaxChunkValues is the size chunks stop doubling at.
const MaxChunkValues = maxChunkValues
