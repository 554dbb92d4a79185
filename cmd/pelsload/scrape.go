package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// printServerVars prints the server's aggregate session metrics from a
// /debug/vars snapshot.
func printServerVars(raw []byte) {
	var vars map[string]float64
	if err := json.Unmarshal(raw, &vars); err != nil {
		fmt.Printf("server vars: unparseable: %v\n", err)
		return
	}
	keys := []string{
		"session.active", "session.admitted", "session.completed",
		"session.reaped", "session.rejected", "session.datagrams",
		"session.feedback_items", "session.wheel_timers",
	}
	fmt.Printf("server")
	for _, k := range keys {
		if v, ok := vars[k]; ok {
			fmt.Printf(" %s=%.0f", k[len("session."):], v)
		}
	}
	fmt.Println()
}

// printShardSummary prints one line per shard from a /debug/shards
// snapshot — the saturation view: how evenly sessions hashed and how
// much rate each shard carries.
func printShardSummary(raw []byte) {
	var shards map[string]map[string]float64
	if err := json.Unmarshal(raw, &shards); err != nil {
		fmt.Printf("server shards: unparseable: %v\n", err)
		return
	}
	names := make([]string, 0, len(shards))
	for name := range shards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := shards[name]
		fmt.Printf("shard %s sessions=%.0f admitted=%.0f reaped=%.0f rate_kbps=%.0f gamma=%.3f\n",
			name, m["shard.sessions"], m["shard.admitted"], m["shard.reaped"],
			m["shard.rate_kbps_sum"], m["shard.gamma_mean"])
	}
}
