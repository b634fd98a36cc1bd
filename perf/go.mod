module munin/perf

go 1.23

require munin v0.0.0

replace munin => ../
