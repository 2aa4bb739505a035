module across/benchmark

go 1.22

require across v0.0.0

replace across => ../
