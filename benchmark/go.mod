module sledge/benchmark

go 1.22

require sledge v0.0.0

replace sledge => ../
