(* A fixed reference workload for the machine's speed at the moment.

   On a shared 2-CPU virtual machine the same compile took from 3.6 to
   6.5 ms depending on when it ran, in phases lasting from seconds to
   tens of minutes.  [sample] times a kernel that uses none of the
   program under test but allocates and chases pointers the way a
   compile does, so the ratio of a measured time to it cancels most of
   the machine's phase.  It must run on the thread that compiles: a
   probe in another process, on whichever CPU it got, tracked the
   compiles' speed worse.  [sample] compacts the heap first, so the
   garbage and the collector's pending work a compile leaves behind do
   not reach the kernel. *)

module IM = Map.Make (Int)

let kernel () =
  let m = ref IM.empty in
  for i = 0 to 3999 do
    m := IM.add (i * 7919 land 65535) i !m
  done;
  let a = Array.of_list (IM.fold (fun k v acc -> (k lxor v) :: acc) !m []) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  Array.iter (fun x -> Hashtbl.replace h (x land 4095) (Array.make 8 x)) a;
  Hashtbl.length h

(* The kernel's time on a 2-CPU x86-64 machine in its common phase; it
   only scales the reported figures. *)
let nominal_s = 0.0025

(* Median time of three kernel runs, on a freshly compacted heap. *)
let sample () =
  Gc.compact ();
  Stats.median
    (List.init 3 (fun _ ->
         let t0 = Unix.gettimeofday () in
         ignore (Sys.opaque_identity (kernel ()));
         Unix.gettimeofday () -. t0))
