module Engine = Solver.Engine

type 'o exec =
  worker_id:int -> zeal:Engine.t -> cove:Engine.t -> Shard.t -> 'o

(* every mutable field, [sched] and [execs] are guarded by [lock] *)
type 'o t = {
  sched : Scheduler.t;
  execs : (string, 'o exec) Hashtbl.t;
  lock : Mutex.t;
  work : Condition.t;  (* claimable work appeared, or the pool is stopping *)
  settled : Condition.t;  (* a result was queued, or a worker exited *)
  results : (string * Shard.t * 'o) Queue.t;
  mutable inflight : int;  (* claimed shards not yet settled *)
  mutable live : int;  (* worker domains still running *)
  stop_flag : bool Atomic.t;
  wake : unit -> unit;
  mutable domains : unit Domain.t list;
}

let stopped t = Atomic.get t.stop_flag
let stopping t = Stop.requested () || stopped t

let rec claim t =
  if stopping t then None
  else
    match Scheduler.next t.sched with
    | Some (key, shard) -> (
      match Hashtbl.find_opt t.execs key with
      | Some exec ->
        t.inflight <- t.inflight + 1;
        Some (key, exec, shard)
      | None -> claim t)
    | None ->
      Condition.wait t.work t.lock;
      claim t

let settle t result =
  Mutex.protect t.lock (fun () ->
      Option.iter (fun r -> Queue.push r t.results) result;
      t.inflight <- t.inflight - 1;
      Condition.broadcast t.settled)

(* Backtrace recording is per-domain runtime state: a fresh domain starts
   from the OCAMLRUNPARAM default, silently dropping whatever the creating
   domain enabled. Mirroring it keeps worker crashes' backtraces, and makes
   a raise cost the same counted words on every worker, which the profile's
   exact allocation total relies on. *)
let worker t ~backtraces worker_id () =
  Printexc.record_backtrace backtraces;
  let zeal = Engine.zeal () and cove = Engine.cove () in
  let rec loop () =
    match Mutex.protect t.lock (fun () -> claim t) with
    | None -> ()
    | Some (key, exec, shard) -> (
      match exec ~worker_id ~zeal ~cove shard with
      | outcome ->
        settle t (Some (key, shard, outcome));
        t.wake ();
        loop ()
      | exception e ->
        settle t None;
        raise e)
  in
  Fun.protect loop ~finally:(fun () ->
      Mutex.protect t.lock (fun () ->
          t.live <- t.live - 1;
          Condition.broadcast t.settled))

let create ~workers ~wake =
  let t =
    {
      sched = Scheduler.create ();
      execs = Hashtbl.create 8;
      lock = Mutex.create ();
      work = Condition.create ();
      settled = Condition.create ();
      results = Queue.create ();
      inflight = 0;
      live = workers;
      stop_flag = Atomic.make false;
      wake;
      domains = [];
    }
  in
  let backtraces = Printexc.backtrace_status () in
  t.domains <-
    List.init workers (fun wid -> Domain.spawn (worker t ~backtraces wid));
  t

(* a scheduler change under the lock, then wake idle workers *)
let update t f =
  Mutex.protect t.lock (fun () ->
      f t.sched;
      Condition.broadcast t.work)

let add t ~key ~quota ~exec shards =
  update t (fun sched ->
      Scheduler.add sched ~key ~quota shards;
      Hashtbl.replace t.execs key exec)

let set_runnable t ~key r = update t (fun s -> Scheduler.set_runnable s ~key r)
let requeue t ~key shard = update t (fun s -> Scheduler.requeue s ~key shard)

let remove t ~key =
  update t (fun sched ->
      Scheduler.remove sched ~key;
      Hashtbl.remove t.execs key)

let next t = Mutex.protect t.lock (fun () -> Scheduler.next t.sched)

let ready t =
  Mutex.protect t.lock (fun () ->
      let rs = List.of_seq (Queue.to_seq t.results) in
      Queue.clear t.results;
      rs)

let await t =
  Mutex.protect t.lock (fun () ->
      let rec go () =
        match Queue.take_opt t.results with
        | Some r -> Some r
        | None when t.inflight = 0
                    && (t.live = 0 || stopping t || Scheduler.idle t.sched) ->
          None
        | None ->
          Condition.wait t.settled t.lock;
          go ()
      in
      go ())

let stop t =
  Atomic.set t.stop_flag true;
  Mutex.protect t.lock (fun () ->
      Condition.broadcast t.work;
      Condition.broadcast t.settled)

let close t =
  stop t;
  List.iter Domain.join t.domains;
  t.domains <- []
