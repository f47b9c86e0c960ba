module crdbserverless/bench

go 1.22

require crdbserverless v0.0.0

replace crdbserverless => ../
