module github.com/cds-suite/cds/benchmark

go 1.24

require github.com/cds-suite/cds v0.0.0

replace github.com/cds-suite/cds => ../
