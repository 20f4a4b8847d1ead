"""Independent test oracles: brute-force lineup enumeration, a pair-by-pair
dominance pruner, a reference forward pass and a per-player window builder.
Deliberately written in the most literal style possible so a bug in the
production code cannot hide in a shared helper.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np

# The three flex configurations, spelled out here rather than imported so a
# wrong production table cannot pass its own oracle.  Same order as the
# production FLEX_CONFIGS.
FLEX_COUNTS = (
    {"QB": 1, "RB": 2, "WR": 3, "TE": 2, "DST": 1},
    {"QB": 1, "RB": 2, "WR": 4, "TE": 1, "DST": 1},
    {"QB": 1, "RB": 3, "WR": 3, "TE": 1, "DST": 1},
)


def brute_force_config(pool, counts: dict, cap: int):
    """Enumerate every legal lineup for one position-count configuration.

    Returns (objective, sorted id tuple) for the best lineup, breaking exact
    ties toward the lexicographically smallest id tuple, or None when no
    lineup fits under the cap.
    """
    best = None
    combos = [
        itertools.combinations([c for c in pool if c.position == p], k)
        for p, k in counts.items()
    ]
    for parts in itertools.product(*combos):
        team = [c for part in parts for c in part]
        if sum(c.salary for c in team) > cap:
            continue
        value = sum(c.predicted_fpts for c in team)
        ids = tuple(sorted(c.player_id for c in team))
        key = (-value, ids)
        if best is None or key < best[0]:
            best = (key, value, ids)
    return None if best is None else (best[1], best[2])


def brute_force_all_flex(pool, cap: int):
    """Best lineup over the three flex configurations, same tie rule."""
    best = None
    for counts in FLEX_COUNTS:
        result = brute_force_config(pool, counts, cap)
        if result is None:
            continue
        key = (-result[0], result[1])
        if best is None or key < best[0]:
            best = (key, result[0], result[1])
    return None if best is None else (best[1], best[2])


def prune_keep_ids(pool) -> set:
    """Ids of the players the solver may keep: a player is dropped when at
    least as many same-position rivals dominate it as the position's largest
    count over FLEX_COUNTS.  A dominator costs no more and has more FPTS, or
    equal FPTS and a smaller id.  Pair by pair."""
    keep = set()
    for c in pool:
        k = max(counts[c.position] for counts in FLEX_COUNTS)
        dominators = 0
        for o in pool:
            if o is c or o.position != c.position or o.salary > c.salary:
                continue
            if o.predicted_fpts > c.predicted_fpts or (
                o.predicted_fpts == c.predicted_fpts and o.player_id < c.player_id
            ):
                dominators += 1
        if dominators < k:
            keep.add(c.player_id)
    return keep


def random_rows_ok(pool, rows, min_salary: int, cap: int) -> list[bool]:
    """Recount each row of pool indices: 9 distinct players, position counts
    equal to one FLEX_COUNTS row, total salary in [min_salary, cap]."""
    ok = []
    for row in rows:
        players = [pool[int(i)] for i in row]
        counts = {pos: 0 for pos in FLEX_COUNTS[0]}
        for c in players:
            counts[c.position] += 1
        salary = sum(c.salary for c in players)
        ok.append(
            len(players) == 9
            and len({c.player_id for c in players}) == 9
            and counts in FLEX_COUNTS
            and min_salary <= salary <= cap
        )
    return ok


def reference_forward(w1, b1, w2, b2, mean, std, x):
    """Scalar-loop forward pass: z-score, sigmoid hidden layer, linear output."""
    z = [(x[i] - mean[i]) / std[i] for i in range(len(x))]
    hidden = []
    for h in range(w1.shape[0]):
        acc = b1[h]
        for i in range(len(z)):
            acc += w1[h, i] * z[i]
        hidden.append(1.0 / (1.0 + np.exp(-acc)))
    out = b2[0]
    for h in range(len(hidden)):
        out += w2[0, h] * hidden[h]
    return float(out)


def reference_window(csv_path, window_index: int, mode: str):
    """One four-week window built player by player from the raw CSV text.

    Game 4 is week window_index + 3.  A player (in id order) is kept when
    the game-4 row exists and is draftable, has FPTS in train mode, and the
    six weeks before game 4 (clipped at week 1) hold at least four played
    weeks, three for window 1.  The last three played weeks are the history
    games.  The row is one-hot position (QB, RB, WR, TE, DST) of game 4, six
    per-game fields over the history games, then five pre-game fields over
    the history games and game 4; a blank among them drops the player.
    Returns (ids, features (n, 43), targets or None).
    """
    rows = {}
    with open(csv_path, newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            rows[(r["player_id"], int(r["week"]))] = r
    game4 = window_index + 3
    lookback = [w for w in range(game4 - 6, game4) if w >= 1]
    needed = 3 if window_index == 1 else 4
    per_game = ("fpts", "point_diff", "team_off_rank", "team_def_rank",
                "opp_off_rank", "opp_def_rank")
    pre_game = ("home", "spread", "over_under", "latitude", "longitude")
    ids, features, targets = [], [], []
    for pid in sorted({pid for pid, _ in rows}):
        target = rows.get((pid, game4))
        if target is None or target["draftable"] != "1":
            continue
        if mode == "train" and target["fpts"] == "":
            continue
        played = []
        for w in lookback:
            if (pid, w) in rows and rows[(pid, w)]["fpts"] != "":
                played.append(rows[(pid, w)])
        if len(played) < needed:
            continue
        history = played[-3:]
        raw = []
        for col in per_game:
            for game in history:
                raw.append(game[col])
        for col in pre_game:
            for game in history + [target]:
                raw.append(game[col])
        if "" in raw:
            continue
        onehot = [1.0 if target["position"] == p else 0.0 for p in ("QB", "RB", "WR", "TE", "DST")]
        ids.append(pid)
        features.append(onehot + [float(v) for v in raw])
        if mode == "train":
            targets.append(float(target["fpts"]))
    matrix = np.array(features, dtype=np.float64).reshape(len(ids), 43)
    return ids, matrix, (np.array(targets, dtype=np.float64) if mode == "train" else None)
