from kzbar.linalg import raw_iaxpy


def dd_and_unit(B, key) -> tuple[dict, dict]:
    """(d d key, (dh + hd - 1) key) as {key: raw}, summed from the public
    ``differential_key`` and ``homotopy_key``; both {} where they hold."""
    P, one, d, h = B.field.p, B.field.one.val, B.differential_key, B.homotopy_key
    dd, unit = {}, {}
    for k2, c in d(key).items():
        raw_iaxpy(dd, c, d(k2), P)
        raw_iaxpy(unit, c, h(k2), P)
    for k2, c in h(key).items():
        raw_iaxpy(unit, c, d(k2), P)
    raw_iaxpy(unit, -one, {key: one}, P)
    return dd, unit
