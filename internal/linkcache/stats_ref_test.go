package linkcache

// ResetStats zeroes the hit/miss counters (entries stay resident).
func ResetStats() {
	for i := range shards {
		shards[i].hits.Store(0)
		shards[i].misses.Store(0)
		shards[i].evictions.Store(0)
	}
}
