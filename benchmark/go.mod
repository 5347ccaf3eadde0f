module zidian/benchmark

go 1.24

require zidian v0.0.0

replace zidian => ../
