module hybridcc/benchmark

go 1.24

require hybridcc v0.0.0

replace hybridcc => ../
