// The benchmark is a module of its own so that it builds from its own
// build file and stays out of the root module's ./... patterns; the
// module path sits under the root module's, which is what lets it
// import the root's internal packages.
module github.com/psmr/psmr/benchmark

go 1.24

require github.com/psmr/psmr v0.0.0

replace github.com/psmr/psmr => ../
