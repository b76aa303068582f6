module arm2gc/benchmark

go 1.24

require arm2gc v0.0.0

replace arm2gc => ../
