// The benchmark is a module of its own so that the repository's
// `go build ./...` and `go test ./...` neither build nor depend on it.
// It lives under the import path hive/ and may therefore import
// hive/internal/...; the replace points at the checkout it sits in.
module hive/benchmark

go 1.23

require hive v0.0.0

replace hive => ../
