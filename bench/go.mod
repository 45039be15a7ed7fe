module fmore/bench

go 1.24

require fmore v0.0.0

replace fmore => ../
