module hetpipe/bench

go 1.24

require hetpipe v0.0.0

replace hetpipe => ../
