"""Seeded stylesheet texts for the compose-churn workload.

Every text is one of the paper's Figure 4, 15 or 17 stylesheets with its
output tags, predicate constants and metro name drawn from a seeded
``random.Random``. Each variant's output tags carry its index, so no two
texts of one set are equal and each one is a distinct plan-cache key.
"""

from __future__ import annotations

import random

#: Metro names the hotel generator assigns (the first three exist at
#: scale 1; the others make a metro predicate select nothing).
METRO_NAMES = ("chicago", "newyork", "boston", "seattle", "austin", "denver")

_WORDS = ("res", "out", "row", "item", "part", "sect", "blk", "grp")

_FIGURE4 = """
<xsl:template match="/">
  <HTML><HEAD></HEAD><BODY><xsl:apply-templates select="metro"/></BODY></HTML>
</xsl:template>
<xsl:template match="metro">
  <{t1}><{t2}></{t2}><xsl:apply-templates select="hotel/confstat"/></{t1}>
</xsl:template>
<xsl:template match="confstat">
  <{t3}><{t4}></{t4}><xsl:apply-templates select="../hotel_available/../confroom"/></{t3}>
</xsl:template>
<xsl:template match="{room_match}">
  <xsl:value-of select="."/>
</xsl:template>
"""

_FIGURE15 = """
<xsl:template match="/">
  <HTML><HEAD></HEAD><BODY><xsl:apply-templates select="metro"/></BODY></HTML>
</xsl:template>
<xsl:template match="metro">
  <xsl:apply-templates select="hotel/confstat"/>
</xsl:template>
<xsl:template match="confstat">
  <{t3}><{t4}></{t4}><xsl:apply-templates select="../hotel_available/../confroom"/></{t3}>
</xsl:template>
<xsl:template match="{room_match}">
  <xsl:value-of select="."/>
</xsl:template>
"""

_FIGURE17 = """
<xsl:template match="/">
  <HTML><HEAD></HEAD><BODY><xsl:apply-templates select="metro"/></BODY></HTML>
</xsl:template>
<xsl:template match="metro">
  <{t1}><{t2}></{t2}><xsl:apply-templates select="hotel/confstat"/></{t1}>
</xsl:template>
<xsl:template match="confstat">
  <{t3}><{t4}/><xsl:apply-templates select=".[@SUM_capacity&lt;{cap_below}]/../hotel_available/../confroom[../confstat[@SUM_capacity&gt;{cap_above}]][@capacity&gt;{room_cap}]"/></{t3}>
</xsl:template>
<xsl:template match="metro[@metroname='{metro}']/hotel/confroom">
  <xsl:value-of select="."/>
</xsl:template>
"""


def stylesheet_texts(seed: int, count: int) -> list[str]:
    """``count`` distinct stylesheet texts, identical for equal seeds.

    The three figures take turns, so every set holds the same mix of
    plan shapes; the seed picks tags, constants and metro names.
    """
    rng = random.Random(f"perfbench-stylesheets-{seed}")
    texts = []
    for index in range(count):
        tags = {
            f"t{slot}": f"{rng.choice(_WORDS)}{slot}_{index}"
            for slot in range(1, 5)
        }
        metro = rng.choice(METRO_NAMES)
        room_match = (
            f"metro[@metroname='{metro}']/hotel/confroom"
            if rng.random() < 0.5
            else "metro/hotel/confroom"
        )
        family = (_FIGURE4, _FIGURE15, _FIGURE17)[index % 3]
        texts.append(
            family.format(
                room_match=room_match,
                metro=metro,
                cap_below=rng.choice((150, 200, 300, 500, 800)),
                cap_above=rng.choice((50, 100, 150, 200)),
                room_cap=rng.choice((50, 100, 150, 250)),
                **tags,
            )
        )
    return texts
