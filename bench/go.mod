module dvr/bench

go 1.22

require dvr v0.0.0

replace dvr => ../
