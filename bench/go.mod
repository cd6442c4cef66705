module gamelens/bench

go 1.22

require gamelens v0.0.0

replace gamelens => ../
