module polytm/bench

go 1.24

require polytm v0.0.0

replace polytm => ../
