module spatialcluster/bench

go 1.22

require spatialcluster v0.0.0

replace spatialcluster => ../
