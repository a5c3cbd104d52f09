"""Reproduction of *Distributing Trust on the Internet* (Cachin, DSN 2001).

An architecture for secure and fault-tolerant service replication in an
asynchronous network where a malicious adversary may corrupt servers
and controls the network.  The package provides, from scratch:

* :mod:`repro.crypto` — the threshold-cryptography substrate: Schnorr
  groups, Shamir and generalized linear secret sharing, the
  Cachin-Kursawe-Shoup threshold coin, the Shoup-Gennaro TDH2
  threshold cryptosystem, Shoup RSA threshold signatures, and the
  trusted dealer;
* :mod:`repro.adversary` — generalized Q^3 adversary structures,
  monotone threshold-gate formulas, attribute classification
  (the paper's Examples 1 and 2), and generalized quorum systems;
* :mod:`repro.net` — the asynchronous network simulator in which
  "the network is the adversary": adversarial schedulers, corruption
  harness — and the TCP transport that runs the same stack over
  HMAC-authenticated sockets;
* :mod:`repro.core` — the broadcast/agreement stack: reliable and
  consistent broadcast, randomized binary Byzantine agreement,
  multi-valued agreement with external validity, atomic broadcast,
  and secure causal atomic broadcast;
* :mod:`repro.smr` — secure state machine replication with threshold-
  signed replies;
* :mod:`repro.apps` — the trusted services of Section 5: certification
  authority, secure directory, notary, authentication service, fair
  exchange;
* :mod:`repro.baselines` — executable counterparts of the Figure 1
  comparison rows (deterministic leader-based consensus; timeout
  failure detectors and view-based membership).
"""

__version__ = "1.0.0"

__all__ = ["adversary", "apps", "baselines", "core", "crypto", "net", "smr"]
