module effnetscale/bench

go 1.24

require effnetscale v0.0.0

replace effnetscale => ../
