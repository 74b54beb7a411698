module sparqlog/bench

go 1.23

require sparqlog v0.0.0

replace sparqlog => ../
