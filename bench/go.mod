// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` neither builds nor runs it; the module
// path keeps it inside smash's internal/ import boundary.
module smash/bench

go 1.24

require smash v0.0.0

replace smash => ../
