package trace

// ChunkBytes returns the bytes a log's chunks hold, free room
// included: its memory, less the task table and the chunk list.
func ChunkBytes(l *Log) int {
	n := cap(l.tail)
	for _, c := range l.full {
		n += cap(c)
	}
	return n
}
