module fafnir/benchmark

go 1.22

require fafnir v0.0.0

replace fafnir => ../
