module xst/benchmarks

go 1.22

require xst v0.0.0

replace xst => ../
