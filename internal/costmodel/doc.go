// Package costmodel implements Section II of the paper: the closed-form
// delay t_ijl and energy E_ijl of running task T_ij on subsystem l, where
// l = 1 is the task's own mobile device, l = 2 its base station, and l = 3
// the remote cloud.
//
// Each cost combines the computation model (II.A) and the transmission
// model (II.B):
//
//	t_ijl = t_ijl^(C) + t_ijl^(R)
//	E_ij1 = E_ij1^(R) + E_ij1^(C)        (battery device computes)
//	E_ijl = E_ijl^(R)            l = 2,3 (grid-powered compute is free)
//
// The transmission terms depend on where the external data lives: same
// cluster as the task's device, or another cluster (adding the
// station-to-station backhaul).
//
// Model.Stages lists each placement's stages once: the uploads, wire
// hops, computation and download, each with its resource, time, energy
// and payer. Eval, Attribute and the discrete-event simulator all read
// that list.
package costmodel
