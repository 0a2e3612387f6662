(* The benchmark's call convention over the runtime's 8-word argument
   block, and the handlers its servers run.

     a0  operand x; the reply carries x + a1
     a1  operand y (the null call) or the service time in ns (open loop)
     a2  call id, echoed unchanged: the span id, and proof the reply
         belongs to this call
     a3  in: client submit stamp   out: handler entry stamp
     a4  in: 0 = untraced, else traced   out: dispatch entry stamp
     a5  out: handler exit stamp
     a6  out: dispatch exit stamp
     a7  return code (Errc)

   Stamps are CLOCK_MONOTONIC ns, comparable across processes.  A
   control-plane call keeps a0-a3 for its own operands; only a4 and a6
   are stamped for it.  Untraced calls take one branch per side and
   read no clock beyond what the work itself needs. *)

let a_x = 0
let a_y = 1
let a_id = 2
let a_stamp = 3
let a_in = 4
let a_hexit = 5
let a_out = 6
let a_rc = 7

let now = Runtime.Doorbell.now_ns

let fill a ~x ~y ~id ~traced ~stamp =
  a.(a_x) <- x;
  a.(a_y) <- y;
  a.(a_id) <- id;
  a.(a_stamp) <- (if traced then stamp else 0);
  a.(a_in) <- (if traced then 1 else 0);
  a.(a_hexit) <- 0;
  a.(a_out) <- 0;
  a.(a_rc) <- 0

let reply_ok a ~rc ~x ~y ~id =
  rc = Ipc_intf.Errc.ok && a.(a_x) = x + y && a.(a_id) = id

let spin_until t =
  while now () < t do
    Domain.cpu_relax ()
  done

(* The null handler: add and return. *)
let add (_ : Runtime.Fastcall.ctx) a =
  if a.(a_in) = 0 then a.(a_x) <- a.(a_x) + a.(a_y)
  else begin
    let h0 = now () in
    a.(a_x) <- a.(a_x) + a.(a_y);
    let h1 = now () in
    a.(a_stamp) <- h0;
    a.(a_hexit) <- h1
  end;
  a.(a_rc) <- Ipc_intf.Errc.ok

(* A service handler: hold the call for a1 ns, then add. *)
let service (_ : Runtime.Fastcall.ctx) a =
  let h0 = now () in
  spin_until (h0 + a.(a_y));
  a.(a_x) <- a.(a_x) + a.(a_y);
  if a.(a_in) <> 0 then begin
    a.(a_stamp) <- h0;
    a.(a_hexit) <- now ()
  end;
  a.(a_rc) <- Ipc_intf.Errc.ok
