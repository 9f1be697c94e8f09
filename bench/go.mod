module sftree/bench

go 1.23

require sftree v0.0.0

replace sftree => ../
