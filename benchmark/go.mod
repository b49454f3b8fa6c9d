module github.com/hamr-go/hamr/benchmark

go 1.22

require github.com/hamr-go/hamr v0.0.0

replace github.com/hamr-go/hamr => ../
