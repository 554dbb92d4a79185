// The benchmark is a module of its own so the repository's `go build ./...`
// and `go test ./...` never compile it. Its path sits under the root
// module's, which is what lets it import repro/internal/...
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
