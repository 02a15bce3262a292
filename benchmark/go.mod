module phttp/benchmark

go 1.22

require phttp v0.0.0

replace phttp => ../
